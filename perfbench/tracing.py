"""Spans around calls into hanoi_bounds' layers, installed from outside.

The package is not edited.  ``install`` wraps each layer's public functions
and rebinds every name that refers to them, in every hanoi_bounds module:
``frame_stewart`` and ``potential`` import ``delta`` and ``nabla`` by name,
so patching ``numerics`` alone would miss their calls.  Methods are wrapped
on their class.

A span is (name, start, end, parent).  Spans are kept in flat arrays in
memory; when the process ends it reduces them to per-name calls and self
times and writes that summary, with its counters, as JSON.  A span's self time is
its duration minus the time its descendants spend in *other* layers, so a
nested call within one layer (``exact_H`` calling ``distance``) stays in
both spans; a layer's self time sums only its outermost spans, so nothing
is counted twice.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from collections import defaultdict
from pathlib import Path

LAYERS = (
    "state_space",
    "cache",
    "cli",
    "frame_stewart",
    "numerics",
    "bounds",
    "potential",
    "constructions",
    "core",
    "dyadic",
)

TRACED = {
    "state_space": ("distance", "exact_H", "exact_gamma", "check_bousch_inequality"),
    "cache": ("ResultCache._load", "ResultCache.get", "ResultCache.put", "ResultCache.save"),
    "cli": ("main",),
    "frame_stewart": (
        "phi_recursive",
        "phi_spectrum",
        "phi4_closed",
        "best_split",
        "transfer_moves",
        "frame_stewart_path",
    ),
    "numerics": ("binomial", "delta", "nabla", "decompose"),
    "bounds": (
        "build_report",
        "chen_shen_bound",
        "dp_lower_bound",
        "dp_lower_bounds",
        "gamma3_formula",
        "gamma4_formula",
        "gamma_conjecture",
        "gamma_upper_general",
        "main2_bound",
    ),
    "potential": ("disk_set", "psi", "psi_L", "check_removal_bound", "check_union_bound"),
    "constructions": ("main1_essential_path", "midpoint_path", "two1_tight_pair"),
    "core": ("MovePath.replay", "is_essential"),
    "dyadic": ("DyadicRational.__eq__", "DyadicRational.__lt__"),
}

_PARTS = ("name", "start", "end", "parent")


def table_bytes(kind: str, p: int, n: int) -> int:
    """Computed size of the dense visit tables one search allocates: a bool
    per (moved-mask, configuration) state for Gamma, two int32 per
    configuration for ``distance``."""
    return p**n << n if kind == "gamma" else 2 * 4 * p**n


class Recorder:
    """In-memory span store plus counters fed by per-function observers."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.arrays = dict(zip(_PARTS, (array("H"), array("d"), array("d"), array("i"))))
        self.stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name: str, observe=None):
        """``fn`` recording one span per call; ``observe(args, result, exc)``
        runs after the span closes."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, starts, ends, parents = (self.arrays[part] for part in _PARTS)
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[idx] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            ends[idx] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: Path, meta: dict) -> None:
        """Write the summary of this process's spans to ``path`` as JSON."""
        calls, self_s, layer_self = self_times(self.names, self.arrays)
        summary = {
            "spans": len(self.arrays["name"]),
            "calls": calls,
            "self_s": self_s,
            "layer_self_s": layer_self,
            "counters": dict(self.counters),
            "meta": meta,
        }
        path.write_text(json.dumps(summary), encoding="utf-8")


def _observers(recorder: Recorder) -> dict:
    from hanoi_bounds.state_space import CapExceededError

    counters = recorder.counters

    def table(kind: str, p: int, n: int) -> None:
        counters["state_space.table_states"] += p**n << n if kind == "gamma" else p**n
        size = table_bytes(kind, p, n)
        counters["state_space.table_bytes"] = max(counters["state_space.table_bytes"], size)

    def gamma(args, result, exc):
        if isinstance(exc, CapExceededError):
            counters["state_space.cap_exceeded"] += 1
        elif exc is None and args[1] > 0:
            table("gamma", args[0], args[1])

    def distance(args, result, exc):
        u, v = args[0], args[1]
        if isinstance(exc, CapExceededError):
            counters["state_space.cap_exceeded"] += 1
        elif exc is None and u.pegs != v.pegs:
            table("distance", u.p, u.n)

    def cache_get(args, result, exc):
        counters["cache.gets"] += 1
        counters["cache.hits"] += result is not None

    def emitted(args, result, exc):
        if exc is None:
            path = result[2] if isinstance(result, tuple) else result
            counters["constructions.moves_emitted"] += len(path.moves)

    def replayed(args, result, exc):
        counters["core.moves_replayed"] += len(args[0].moves)

    return {
        "state_space.exact_gamma": gamma,
        "state_space.distance": distance,
        "cache.ResultCache.get": cache_get,
        "constructions.main1_essential_path": emitted,
        "constructions.midpoint_path": emitted,
        "constructions.two1_tight_pair": emitted,
        "core.MovePath.replay": replayed,
    }


def install(recorder: Recorder) -> None:
    """Wrap every traced function and rebind each module-level name bound
    to one, across all loaded hanoi_bounds modules."""
    modules = {layer: importlib.import_module(f"hanoi_bounds.{layer}") for layer in LAYERS}
    modules["__init__"] = importlib.import_module("hanoi_bounds")
    observers = _observers(recorder)
    replaced = {}
    for layer, attrs in TRACED.items():
        for attr in attrs:
            owner = modules[layer]
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[leaf]
            name = f"{layer}.{attr}"
            wrapper = recorder.wrap(original, name, observers.get(name))
            setattr(owner, leaf, wrapper)
            replaced[id(original)] = (original, wrapper)
    for module in modules.values():
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


def self_times(span_names: list[str], arrays: dict) -> tuple[dict, dict, dict]:
    """Per span name: calls and self seconds; per layer: self seconds of
    its outermost spans."""
    layer_of = [name.split(".")[0] for name in span_names]
    names, starts, ends, parents = (arrays[part] for part in _PARTS)
    count = len(names)
    foreign = [0.0] * count
    # Children come after their parent, so a reverse sweep finishes each
    # span's foreign time before adding it to the parent's.
    for i in range(count - 1, -1, -1):
        parent = parents[i]
        if parent >= 0:
            if layer_of[names[i]] != layer_of[names[parent]]:
                foreign[parent] += ends[i] - starts[i]
            else:
                foreign[parent] += foreign[i]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_self: dict[str, float] = defaultdict(float)
    for i in range(count):
        name = span_names[names[i]]
        own = ends[i] - starts[i] - foreign[i]
        calls[name] += 1
        self_s[name] += own
        parent = parents[i]
        layer = layer_of[names[i]]
        if parent < 0 or layer_of[names[parent]] != layer:
            layer_self[layer] += own
    return dict(calls), dict(self_s), dict(layer_self)
