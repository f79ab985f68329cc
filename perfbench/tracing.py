"""Per-layer tracing installed from outside the package.

Every hook is resolved by name when it is installed.  A hook whose module
or function no longer exists is reported as absent and skipped, so the
benchmark keeps running when a later change removes or renames an
internal.  Functions are replaced where they are looked up: every loaded
``dunklstar`` module attribute that is the original function object is
replaced by the wrapper, which covers ``from .star import star`` style
imports and the package namespace alike.

A traced run records
  * spans around public calls (calls, total seconds, self seconds);
  * cProfile self time per package module, with the self time of
    builtins charged to the package module that called them;
  * exact counts: profiled call counts, composition tuples enumerated by
    ``star``, expansion words, star output terms and (j, l) layers;
  * cache statistics read from the caches themselves.
"""

from __future__ import annotations

import cProfile
import importlib
import inspect
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

TRACE_MARK = "PERFBENCH_TRACE "
SPANS = ("cli.main", "parser.parse", "formatting.format_element", "star.star",
         "star.star_pair", "expansion.verify_pair", "expansion.expansion_product",
         "cherednik.multiply")
MODULES = ("rational", "poly", "calculus", "star", "cherednik", "expansion",
           "parser", "formatting", "cli")
# metric -> (module, function names whose profiled call counts are summed)
# the weight-table functions of star.py that the polynomial-time rewrite removes
WEIGHT_FUNCS = ("_layer_weight", "_chain_scalar")
CALL_COUNTS = {
    "rational.arith_calls": ("rational", ("__add__", "__sub__", "__neg__", "__mul__",
                                          "__truediv__", "scale_int")),
    "poly.mul_calls": ("poly", ("__mul__",)),
    "poly.add_calls": ("poly", ("__add__",)),
    "poly.mono_mul_calls": ("poly", ("_mono_mul",)),
}


def module(name: str):
    return sys.modules.get("dunklstar." + name)


def _resolve(dotted: str):
    mod_name, _, attr = dotted.partition(".")
    mod = module(mod_name)
    return getattr(mod, attr, None) if mod is not None else None


def _defines(mod_name: str, names: Tuple[str, ...]) -> bool:
    """True if the module defines a function or method with one of the names."""
    mod = module(mod_name)
    if mod is None:
        return False
    for value in vars(mod).values():
        if inspect.isfunction(value) and value.__name__ in names:
            return True
        if inspect.isclass(value) and value.__module__ == mod.__name__:
            if any(inspect.isfunction(vars(value).get(n)) for n in names):
                return True
    return False


def cache_snapshot() -> Dict[str, Optional[int]]:
    """Raw cache readings; None where the cache does not exist."""

    def lru(dotted):
        info = getattr(_resolve(dotted), "cache_info", None)
        return info() if info is not None else None

    def size(dotted):
        obj = _resolve(dotted)
        return len(obj) if obj is not None else None

    weight = lru("star._layer_weight")
    series = lru("calculus._series_coeff")
    return {
        "weight_hits": weight.hits if weight else None,
        "weight_misses": weight.misses if weight else None,
        "weight_size": weight.currsize if weight else None,
        "mono_mul_size": size("poly._mono_mul_cache"),
        "reduce_size": size("cherednik._reduce_cache"),
        "series_size": series.currsize if series else None,
    }


CACHE_METRICS = ("star.weight_cache.hits", "star.weight_cache.misses",
                 "star.weight_cache.size", "star.weight_cache.hit_rate",
                 "poly.mono_mul_cache.size", "cherednik.reduce_cache.size",
                 "calculus.series_cache.size")


def cache_metrics(before: Dict[str, Optional[int]],
                  after: Dict[str, Optional[int]]) -> Dict[str, float]:
    """Hits and misses between two snapshots, sizes at the second."""
    out: Dict[str, float] = {}
    if after["weight_hits"] is not None:
        hits = after["weight_hits"] - (before.get("weight_hits") or 0)
        misses = after["weight_misses"] - (before.get("weight_misses") or 0)
        out["star.weight_cache.hits"] = hits
        out["star.weight_cache.misses"] = misses
        out["star.weight_cache.size"] = after["weight_size"]
        out["star.weight_cache.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    for metric, key in (("poly.mono_mul_cache.size", "mono_mul_size"),
                        ("cherednik.reduce_cache.size", "reduce_size"),
                        ("calculus.series_cache.size", "series_size")):
        if after[key] is not None:
            out[metric] = after[key]
    return out


def _json_rows(fmt: Callable, value) -> list:
    doc = json.loads(fmt(value, "json"))
    return doc["plain"] + doc["gamma"]


class Tracer:
    """Spans, profile and counters for one traced run in this process.

    Use: ``install()`` once after importing the package, ``begin()``
    before the traced operations, ``enable()``/``disable()`` around each
    operation, then ``report()``.
    """

    def __init__(self):
        self.spans = {name: [0, 0.0, 0.0] for name in SPANS}
        self.events = {"calculus.compositions": 0, "expansion.words": 0,
                       "star.output_terms": 0, "star.nonzero_layers": 0, "star.max_j": 0}
        self.absent: List[str] = []
        self.profile = cProfile.Profile()
        self._stack: List[List[float]] = []
        self._format = _resolve("formatting.format_element")
        self._caches_before: Dict[str, Optional[int]] = {}
        self._active = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for name in MODULES:  # load every layer, so an unused one reports zeros
            try:
                importlib.import_module("dunklstar." + name)
            except ImportError:
                pass
        posts = {"star.star": self._after_star,
                 "expansion.expansion_product": self._after_expansion}
        for name in SPANS:
            self._wrap(name, lambda fn, name=name: self._span(name, fn, posts.get(name)))
        self._wrap("star.enumerate_compositions", self._count_compositions)
        if "star.enumerate_compositions" in self.absent:
            self.absent.append("calculus.compositions")
        if self._format is None:
            self.absent += ["star.output_terms", "star.nonzero_layers", "star.max_j",
                            "expansion.words"]

    def _wrap(self, dotted: str, make: Callable[[Callable], Callable]) -> None:
        orig = _resolve(dotted)
        if not callable(orig):
            self.absent.append(dotted)
            return
        new = make(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name.split(".")[0] != "dunklstar":
                continue
            for attr, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, attr, new)

    # -- recording -----------------------------------------------------------

    def _span(self, name: str, fn: Callable, post: Optional[Callable]) -> Callable:
        rec = self.spans[name]
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if post is not None:
                self._untimed(post, args, result)
            return result

        return wrapper

    def _untimed(self, fn: Callable, *args) -> None:
        """Run bookkeeping with the profiler off and the open spans paused."""
        if self._active:
            self.profile.disable()
        t0 = time.perf_counter()
        try:
            fn(*args)
        finally:
            spent = time.perf_counter() - t0
            for frame in self._stack:
                frame[0] += spent
            if self._active:
                self.profile.enable()

    def _count_compositions(self, fn: Callable) -> Callable:
        events = self.events

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            events["calculus.compositions"] += len(out)
            return out

        return wrapper

    def _after_star(self, args, result) -> None:
        if self._format is None:
            return
        rows = _json_rows(self._format, result)
        layers = {(row[2], row[3]) for row in rows}
        self.events["star.output_terms"] += len(rows)
        self.events["star.nonzero_layers"] += len(layers)
        self.events["star.max_j"] = max([self.events["star.max_j"]] + [j for j, _ in layers])

    def _after_expansion(self, args, result) -> None:
        if self._format is None:
            return
        alphas = {row[1] for row in _json_rows(self._format, args[0])}
        self.events["expansion.words"] += sum(3 ** alpha for alpha in alphas)

    # -- run control ---------------------------------------------------------

    def begin(self) -> None:
        self._caches_before = cache_snapshot()

    def enable(self) -> None:
        self._active = True
        self.profile.enable()

    def disable(self) -> None:
        self.profile.disable()
        self._active = False

    # -- results -------------------------------------------------------------

    def report(self) -> Dict[str, float]:
        """Metric name -> value for every hook present in this process."""
        out: Dict[str, float] = {}
        for name, (calls, total, self_s) in self.spans.items():
            if name not in self.absent:
                out[f"{name}.calls"] = calls
                out[f"{name}.total_s"] = total
                out[f"{name}.self_s"] = self_s

        root = os.path.dirname(sys.modules["dunklstar"].__file__)

        def owner(key) -> Optional[str]:
            """Package module that defines a profiled function, else None."""
            if os.path.dirname(key[0]) != root:
                return None
            return os.path.basename(key[0])[:-3]

        self.profile.create_stats()
        stats = self.profile.stats
        # (module, function) -> [calls, self seconds including builtins it called]
        funcs: Dict[Tuple[str, str], List[float]] = {}
        for key, (_, ncalls, tt, _, callers) in stats.items():
            mod = owner(key)
            if mod is not None:
                funcs.setdefault((mod, key[2]), [0, 0.0])
                funcs[(mod, key[2])][0] += ncalls
                funcs[(mod, key[2])][1] += tt
            elif key[0] == "~":  # a builtin: split its self time by caller
                for caller, caller_row in callers.items():
                    cmod = owner(caller)
                    if cmod is not None:
                        funcs.setdefault((cmod, caller[2]), [0, 0.0])[1] += caller_row[2]
        for mod in MODULES:
            if module(mod) is None:
                self.absent.append(f"{mod}.prof_self_s")
            else:
                out[f"{mod}.prof_self_s"] = sum(v[1] for (m, _), v in funcs.items() if m == mod)
        if _defines("star", WEIGHT_FUNCS):
            out["star.weight_fns.prof_self_s"] = sum(
                funcs.get(("star", f), (0, 0.0))[1] for f in WEIGHT_FUNCS)
        else:
            self.absent.append("star.weight_fns.prof_self_s")
        out["profile.total_s"] = sum(row[2] for row in stats.values())

        for metric, (mod, names) in CALL_COUNTS.items():
            if _defines(mod, names):
                out[metric] = sum(funcs.get((mod, n), (0, 0.0))[0] for n in names)
            else:
                self.absent.append(metric)
        for name, value in self.events.items():
            if name not in self.absent:
                out[name] = value
        caches = cache_metrics(self._caches_before, cache_snapshot())
        out.update(caches)
        self.absent += [m for m in CACHE_METRICS if m not in caches]
        return out
