"""Per-layer tracing from outside the program.

The tracer replaces each traced function of ``homspace`` by a timing
wrapper in *every* homspace module namespace that refers to it (modules
import each other's functions by name), keeps a stack of open calls so that
a call's self time is its duration minus the calls it made, and restores
every original function when it is removed.

Traced functions are each layer module's public functions plus the private
ones that other modules import or that hold a cache.  Methods of classes are
not wrapped, so their time counts as self time of the calling layer.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from math import prod
from time import perf_counter_ns

LAYERS = ("intlinalg", "abgroups", "rootdata", "groups", "extensions", "invariants", "cli")
PRIVATE_TARGETS = {
    "intlinalg": ("_snf_transform",),
    "groups": ("_gluing", "_pi1_span", "_derived_kernel"),
    "extensions": ("_elements", "_add_table"),
}
# intlinalg is split by algorithm; the first function of each group is the
# one whose calls are counted.
INTLINALG_GROUPS = {
    "hnf": ("hermite_normal_form", "lattice_row_basis", "inverse_unimodular"),
    "kernel": ("integer_kernel",),
    "snf": ("_snf_transform", "smith_normal_form", "invariant_factors_of", "solve_integer"),
}
CACHED = (
    ("rootdata", "build_datum"),
    ("groups", "_gluing"),
    ("groups", "_pi1_span"),
    ("extensions", "_elements"),
    ("extensions", "_add_table"),
)
_MARK = "__perfbench_wrapper__"


def layer_modules():
    return {name: importlib.import_module(f"homspace.{name}") for name in LAYERS}


def _bucket(layer: str, name: str) -> str:
    if layer == "intlinalg":
        for group, names in INTLINALG_GROUPS.items():
            if name in names:
                return f"intlinalg.{group}"
        return "intlinalg.other"
    return layer


def _traced_names(layer: str, module):
    for name, obj in vars(module).items():
        if not callable(obj) or isinstance(obj, type) or getattr(obj, "__module__", None) != module.__name__:
            continue
        if not name.startswith("_") or name in PRIVATE_TARGETS.get(layer, ()):
            yield name, obj


def _matrices(result):
    """IntMatrix values returned by a normal-form call."""
    parts = result if isinstance(result, tuple) else (result,)
    return [m for m in parts if m is not None and hasattr(m, "row")]


def _max_bits(matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for i in range(m.rows) for x in m.row(i)),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.modules = layer_modules()
        self.calls = defaultdict(int)  # "layer.function" -> calls
        self.self_ns = defaultdict(int)  # bucket -> self time
        self.max_cells = 0
        self.out_bits_max = 0
        self.table_cells = 0
        self._stack = [[0]]  # per open call: time spent in traced callees
        self._patches = []  # (module, attribute, original)

    # -- counters read from arguments and results, outside the timed span

    def _observe_normal_form(self, args, result):
        m = args[0]
        self.max_cells = max(self.max_cells, m.rows * m.cols)
        self.out_bits_max = max(self.out_bits_max, _max_bits(_matrices(result)))

    def _observe_cocycle(self, args, result):
        self.table_cells += prod(args[0].project.codomain.invariant_factors) ** 2

    def _wrap(self, fn, key: str, bucket: str, observe):
        stack, calls, self_ns = self._stack, self.calls, self.self_ns

        def wrapper(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                calls[key] += 1
                self_ns[bucket] += t1 - t0 - frame[0]
                stack[-1][0] += t1 - t0
            if observe is not None:
                observe(args, result)
            # the caller's self time excludes this call and its bookkeeping
            stack[-1][0] += perf_counter_ns() - t1
            return result

        setattr(wrapper, _MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        observers = {
            "intlinalg.hermite_normal_form": self._observe_normal_form,
            "intlinalg._snf_transform": self._observe_normal_form,
            "intlinalg.integer_kernel": self._observe_normal_form,
            "extensions.cocycle_of": self._observe_cocycle,
        }
        wrappers = {}
        for layer, module in self.modules.items():
            for name, fn in _traced_names(layer, module):
                key = f"{layer}.{name}"
                wrappers[id(fn)] = (fn, self._wrap(fn, key, _bucket(layer, name), observers.get(key)))
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, obj))

    def remove(self):
        for module, attr, original in self._patches:
            setattr(module, attr, original)
        self._patches = []
        leftovers = [
            f"{module.__name__}.{attr}"
            for module in self.modules.values()
            for attr, obj in vars(module).items()
            if getattr(obj, _MARK, False)
        ]
        if leftovers:
            raise RuntimeError(f"tracing wrappers left behind: {leftovers}")

    # -- results

    def cache_stats(self) -> dict:
        out = {}
        for layer, name in CACHED:
            info = getattr(getattr(self.modules[layer], name, None), "cache_info", None)
            hits, misses, size = (info().hits, info().misses, info().currsize) if info else (0, 0, 0)
            out.update({f"cache.{name}.hits": hits, f"cache.{name}.misses": misses, f"cache.{name}.currsize": size})
        return out

    def layer_metrics(self) -> dict:
        """Exact counters and self times (seconds) per layer."""
        def layer_calls(layer):
            return sum(n for key, n in self.calls.items() if key.startswith(layer + "."))

        def seconds(bucket):
            return self.self_ns.get(bucket, 0) / 1e9

        return {
            "intlinalg.hnf.calls": self.calls["intlinalg.hermite_normal_form"],
            "intlinalg.hnf.self_s": seconds("intlinalg.hnf"),
            "intlinalg.kernel.calls": self.calls["intlinalg.integer_kernel"],
            "intlinalg.kernel.self_s": seconds("intlinalg.kernel"),
            "intlinalg.snf.calls": self.calls["intlinalg._snf_transform"],
            "intlinalg.snf.self_s": seconds("intlinalg.snf"),
            "intlinalg.other.self_s": seconds("intlinalg.other"),
            "intlinalg.max_cells": self.max_cells,
            "intlinalg.out_bits_max": self.out_bits_max,
            "abgroups.calls": layer_calls("abgroups"),
            "abgroups.self_s": seconds("abgroups"),
            "rootdata.calls": layer_calls("rootdata"),
            "rootdata.self_s": seconds("rootdata"),
            "groups.pi1.calls": self.calls["groups.pi1"],
            "groups.self_s": seconds("groups"),
            "extensions.cocycle.calls": self.calls["extensions.cocycle_of"],
            "extensions.table_cells": self.table_cells,
            "extensions.self_s": seconds("extensions"),
            "invariants.self_s": seconds("invariants"),
            "cli.self_s": seconds("cli"),
        }

