"""Per-module spans for a traced run, installed from outside the library.

``install()`` wraps every public function of each ``weylwords`` module and
every public method and cached property of its public classes, plus
``__mul__`` and ``__post_init__``.  Plain properties stay unwrapped: they
are accessors, and ``AffineElement.__eq__`` reads one (``rs``) on every
hash collision, so their counts would vary with ``PYTHONHASHSEED``.  Modules import each other's names
(``from .cartan import ...``), so a wrapper replaces every binding of the
original object in every ``weylwords.*`` namespace, including values of
module-level dicts such as ``verify.SUITES``.  A wrapped cached property
counts first computations only.

Each wrapper records its call count and its self time: the span's duration
minus the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter_ns

LAYERS = ("cartan", "finweyl", "affine", "biconvex", "words", "verify", "cli")

# Dunder methods that are library operations rather than plumbing.
_DUNDERS = ("__mul__", "__post_init__")

# Private lru caches whose occupancy is reported, by metric name.
CACHES = {
    "build": ("cartan", "_build_by_label"),
    "sub_system": ("cartan", "_sub_system_cached"),
    "weyl_elements": ("finweyl", "_weyl_elements_cached"),
    "bfs": ("affine", "_bfs_cached"),
    "window_triples": ("biconvex", "_window_sum_triples"),
}

# Spans behind each named per-layer metric.
SPANS = {
    "cartan.pairing": "cartan.RootSystem.pairing",
    "cartan.simple_coroot_pairing": "cartan.RootSystem.simple_coroot_pairing",
    "cartan.coroot_coords": "cartan.RootSystem.coroot_coords",
    "finweyl.mul": "finweyl.WeylElement.__mul__",
    "finweyl.inverse": "finweyl.WeylElement.inverse",
    "finweyl.word": "finweyl.WeylElement.word",
    "finweyl.weyl_elements": "finweyl.weyl_elements",
    "finweyl.classify_subset": "finweyl.classify_subset",
    "affine.mul": "affine.AffineElement.__mul__",
    "affine.act": "affine.AffineElement.act",
    "affine.inversion_set": "affine.affine_inversion_set",
    "affine.length": "affine.affine_length",
    "affine.reduced_word": "affine.affine_reduced_word",
    "affine.bfs": "affine.bfs_elements",
    "biconvex.realize": "biconvex.realize",
    "biconvex.parametrize": "biconvex.parametrize",
    "biconvex.window_test": "biconvex.is_biconvex_window",
    "biconvex.enumerate": "biconvex.enumerate_biconvex",
    "words.certify": "words.InfiniteWord.__post_init__",
    "words.act": "words.act_on_word",
    "words.classify": "words.classify_word",
    "words.translation_word": "words.translation_word",
}

# Pairings made while translation_word runs: its search's attempts.
SEARCH = "words.translation_word"
SEARCH_STEP = "cartan.RootSystem.simple_coroot_pairing"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.active: list[int] = []
        self.search_steps = 0
        self._stack: list[int] = []

    def _slot(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.active.append(0)
        return len(self.names) - 1

    def wrap(self, fn, name: str):
        idx = self._slot(name)
        calls, self_ns, active, stack = self.calls, self.self_ns, self.active, self._stack
        is_step = name == SEARCH_STEP

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0)
            active[idx] += 1
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter_ns() - start
                active[idx] -= 1
                child = stack.pop()
                calls[idx] += 1
                self_ns[idx] += spent - child
                if stack:
                    stack[-1] += spent
                if is_step and active[self.index[SEARCH]]:
                    self.search_steps += 1

        return wrapper

    def install(self, package) -> None:
        """Wrap the library's public callables and rebind every reference."""
        modules = _library_modules(package)
        replace: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"{package.__name__}.{layer}"]
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                    continue
                if isinstance(value, types.FunctionType):
                    replace[id(value)] = self.wrap(value, f"{layer}.{attr}")
                elif isinstance(value, type) and not issubclass(value, BaseException):
                    self._wrap_class(value, f"{layer}.{attr}")
        self.index = {name: i for i, name in enumerate(self.names)}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replace:
                    setattr(module, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{prefix}.{attr}"
            if isinstance(value, types.FunctionType):
                setattr(cls, attr, self.wrap(value, name))
            elif isinstance(value, functools.cached_property):
                wrapped = functools.cached_property(self.wrap(value.func, name))
                wrapped.__set_name__(cls, attr)
                setattr(cls, attr, wrapped)

    def spans(self) -> dict[str, dict]:
        """Calls and self seconds of every wrapped callable that ran."""
        return {
            name: {"calls": calls, "self_s": ns / 1e9}
            for name, calls, ns in zip(self.names, self.calls, self.self_ns) if calls
        }

    def layers(self, package) -> dict[str, float]:
        """Per-layer metric values: counts, self seconds and cache occupancy."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            members = [i for i, n in enumerate(self.names) if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(self.calls[i] for i in members)
            out[f"{layer}.self_s"] = sum(self.self_ns[i] for i in members) / 1e9
        for metric, span in SPANS.items():
            i = self.index[span]
            out[f"{metric}.calls"] = self.calls[i]
            out[f"{metric}.self_s"] = self.self_ns[i] / 1e9
        searches = out[f"{SEARCH}.calls"]
        out[f"{SEARCH}.pairings_per_call"] = self.search_steps / searches if searches else 0.0
        for key, (layer, attr) in CACHES.items():
            info = getattr(sys.modules[f"{package.__name__}.{layer}"], attr).cache_info()
            out[f"cache.{key}.hits"] = info.hits
            out[f"cache.{key}.misses"] = info.misses
            out[f"cache.{key}.entries"] = info.currsize
        return out


def _library_modules(package) -> dict[str, types.ModuleType]:
    prefix = package.__name__
    return {
        name: module for name, module in sys.modules.items()
        if module is not None and (name == prefix or name.startswith(prefix + "."))
    }
