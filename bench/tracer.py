"""Layer timings taken from outside the program, at its public functions.

`Tracer.install` wraps every public function of the layer modules and puts
the wrapper under each name that holds the function in any `aubincheck`
module, since modules import functions by name.  A span records its
parent; a function that re-enters itself is timed at its outermost call
only.  Spans are folded into per-function and per-edge sums as they close,
so memory stays flat however many calls a pass makes.

Stages inside a function (the oracle's grid scan, Newton refinement and
distance polish) have no public function and are not seen here.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter

LAYERS = ("cli", "problemfile", "expr", "calculus", "kernel", "conditions", "oracle", "report")


def _points(args, kwargs) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    shape = getattr(x, "shape", ())
    return int(shape[-1]) if len(shape) > 1 else 1


def _matrices(args, kwargs) -> int:
    shape = getattr(args[0], "shape", ())
    count = 1
    for s in shape[:-2]:
        count *= int(s)
    return count


# Work counted at a traced function, beside its calls: name -> (counter, measure).
_MEASURES = {
    "expr.eval_array": ("expr.eval_array_points", _points),
    "numpy.pinv": ("numpy.pinv_matrices", _matrices),
}


class Tracer:
    def __init__(self):
        self.reset()
        self._originals = []  # (owner, attribute, original)

    def reset(self):
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.edges = {}  # (parent, name) -> [calls, total_s]
        self.counts = {}
        self._stack = [["<root>", 0.0, 0.0]]  # [name, start, child time]
        self._open = set()

    def _wrap(self, name, fn):
        stats, edges, counts, stack, open_ = self.stats, self.edges, self.counts, self._stack, self._open
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name in open_:
                return fn(*args, **kwargs)
            if measure is not None:
                counts[measure[0]] = counts.get(measure[0], 0) + measure[1](args, kwargs)
            frame = [name, perf_counter(), 0.0]
            stack.append(frame)
            open_.add(name)
            try:
                return fn(*args, **kwargs)
            finally:
                total = perf_counter() - frame[1]
                stack.pop()
                open_.discard(name)
                parent = stack[-1]
                parent[2] += total
                s = stats.get(name)
                if s is None:
                    s = stats[name] = [0, 0.0, 0.0]
                s[0] += 1
                s[1] += total
                s[2] += total - frame[2]
                e = edges.get((parent[0], name))
                if e is None:
                    e = edges[(parent[0], name)] = [0, 0.0]
                e[0] += 1
                e[1] += total

        return traced

    def install(self):
        """Wrap the layers' public functions and numpy.linalg.pinv."""
        import numpy

        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"aubincheck.{layer}"]
            for attr, obj in vars(module).items():
                if (isinstance(obj, types.FunctionType) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
        for modname, module in list(sys.modules.items()):
            if modname == "aubincheck" or modname.startswith("aubincheck."):
                for attr, obj in list(vars(module).items()):
                    if isinstance(obj, types.FunctionType) and obj in wrapped:
                        self._originals.append((module, attr, obj))
                        setattr(module, attr, wrapped[obj])
        pinv = numpy.linalg.pinv
        self._originals.append((numpy.linalg, "pinv", pinv))
        numpy.linalg.pinv = self._wrap("numpy.pinv", pinv)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
