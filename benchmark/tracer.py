"""
Per-layer tracing of garside_census from outside the package.

``Tracer.install`` replaces every public function of each layer module at
every module namespace that binds it (``words`` and ``oracle`` import
names from ``permutations``, and the package re-exports most of them).
Most functions get a span wrapper that records (name, start, end, parent
span, op id) in memory; the hot leaves in COUNT_ONLY only get a call
counter, because a span per call would cost more than the call.  The
recursive, ``lru_cache``d ``descents._fill_columns`` is not wrapped; its
hits and misses are read from ``cache_info()``.  ``restore`` puts every
original object back, and ``restored`` checks that no wrapper is left.

A layer's self time is the duration of its spans minus the time covered
by their direct child spans.  The root span of each op is ``cli``, so
``cli`` self time is argparse, dispatch and output formatting.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import time

PACKAGE = "garside_census"
LAYERS = ("permutations", "descents", "matrices", "spectral", "formulas", "oracle", "words", "reference")
NAMESPACES = (PACKAGE, "cli") + LAYERS

# Leaf helpers called once per permutation, subset, letter or coefficient.
COUNT_ONLY = frozenset({
    "permutations.compose", "permutations.d_left", "permutations.d_right",
    "permutations.inverse", "permutations.transposition", "permutations.identity",
    "permutations.is_normal_pair", "permutations.inversion_number",
    "permutations.is_one_line", "permutations.format_permutation",
    "permutations.format_descent_set",
    "descents.mask_of", "descents.set_of_mask", "descents.composition_of",
    "descents.partition_of", "descents.set_of_composition",
})

COUNT_RESULTS = ("matrices.b_total", "matrices.b_delta", "matrices.b_of_partition", "matrices.b_of_simple")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: dict[str, list[int]] = {}
        self.names: set[str] = set()
        self.count_bits_max = 0
        self.charpoly_max_size = 0
        self.normalized: list = []
        self._patches: list = []
        self._modules = {name: importlib.import_module(name if name == PACKAGE else f"{PACKAGE}.{name}")
                         for name in NAMESPACES}

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if after is not None:
                after(args, result)
            return result

        wrapper._bench_traced = True
        return wrapper

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper._bench_traced = True
        return wrapper

    def _after(self, name):
        if name in COUNT_RESULTS:
            def note_bits(args, result):
                self.count_bits_max = max(self.count_bits_max, result.bit_length())
            return note_bits
        if name == "spectral.charpoly":
            def note_size(args, result):
                self.charpoly_max_size = max(self.charpoly_max_size, len(result) - 1)
            return note_size
        if name == "words.normalize":
            def note_word(args, result):
                self.normalized.append((len(args[0].letters), result.factors))
            return note_word
        return None

    # -- install / restore -----------------------------------------------

    def install(self) -> None:
        originals = {}
        for layer in LAYERS:
            mod = self._modules[layer]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _is_function(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {}
        for key, (name, fn) in originals.items():
            self.names.add(name)
            if name in COUNT_ONLY:
                wrappers[key] = self._counter(name, fn)
            else:
                wrappers[key] = self._span(name, fn, self._after(name))
        for ns in self._modules.values():
            for attr, obj in list(vars(ns).items()):
                if id(obj) in originals and originals[id(obj)][1] is obj:
                    setattr(ns, attr, wrappers[id(obj)])
                    self._patches.append((ns, attr, obj))

    def restore(self) -> None:
        for ns, attr, obj in reversed(self._patches):
            setattr(ns, attr, obj)

    def restored(self) -> bool:
        """True when every patched name holds its original and no wrapper is bound anywhere."""
        if any(getattr(ns, attr) is not obj for ns, attr, obj in self._patches):
            return False
        return not any(getattr(obj, "_bench_traced", False)
                       for ns in self._modules.values() for obj in vars(ns).values())

    def root(self, op: int, fn, *args):
        """Run one op under a root span named ``cli``."""
        self.op = op
        return self._span("cli", fn)(*args)

    # -- results ----------------------------------------------------------

    def aggregate(self) -> dict[str, list]:
        """name -> [calls, self seconds] over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        agg: dict[str, list] = {}
        for k, (name, t0, t1, _, _) in enumerate(self.spans):
            entry = agg.setdefault(name, [0, 0.0])
            entry[0] += 1
            entry[1] += (t1 - t0) - child[k]
        for name, cell in self.counts.items():
            agg[name] = [cell[0], 0.0]
        return agg

    def metrics(self, names: list[str]) -> dict[str, float]:
        """The per-layer metrics by name; call after restore()."""
        agg = self.aggregate()
        descents = self._modules["descents"]
        words = self._modules["words"]

        def hit_ratio(cached) -> float:
            info = cached.cache_info()
            lookups = info.hits + info.misses
            return info.hits / lookups if lookups else 0.0

        special = {
            "cli.self_s": agg.get("cli", [0, 0.0])[1],
            "matrices.count_bits_max": self.count_bits_max,
            "spectral.charpoly.max_size": self.charpoly_max_size,
            "descents.fill_columns.hit_ratio": hit_ratio(descents._fill_columns),
            "descents.margins.hit_ratio": hit_ratio(descents._count_by_sorted_margins),
            "permutations.descents.calls": (agg.get("permutations.d_left", [0])[0]
                                            + agg.get("permutations.d_right", [0])[0]),
            "words.letters": sum(length for length, _ in self.normalized),
            # One factor per letter has potential 1 + 2 + ... + L, and each move lowers it by one.
            "words.rewrite_moves": sum(length * (length + 1) // 2 - words.rewrite_potential(factors)
                                       for length, factors in self.normalized),
        }
        out = {}
        for metric in names:
            if metric in special:
                out[metric] = special[metric]
                continue
            base, _, what = metric.rpartition(".")
            if base not in self.names or what not in ("calls", "self_s"):
                raise KeyError(f"no traced layer for metric {metric!r}")
            calls, self_s = agg.get(base, [0, 0.0])
            out[metric] = calls if what == "calls" else self_s
        return out

    def write_spans(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
