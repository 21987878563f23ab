"""Span tracing of the ``slim`` layers, installed from outside the program.

``Tracer.install`` wraps the public functions of every layer module and
patches each wrapper in wherever the original name is looked up: the
defining module, every ``slim`` module that imported the name, and the
package namespace. Methods that are reached through an object (``Tensor``
backward, the optimizer steps) are patched on their class. ``uninstall``
puts every original back, so traced and untraced cycles can share a process.

The op functions of ``slim.autodiff`` are not wrapped. They build the tape
inside the spans of the layers that call them, so their cost is those
layers' self time; ``joint_loss``'s self time is the tape glue.

A span's self time is its duration minus the durations of the spans nested
directly in it, so nested spans (``encode`` inside ``encode_values``, say)
are never counted twice.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import types
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("datasets", "substructure", "embedding", "landmarks", "pooling",
          "model", "autodiff", "training")
# (module, class, method) reached through objects rather than module names
METHODS = (("autodiff", "Tensor", "backward"),
           ("training", "SGD", "step"),
           ("training", "Adagrad", "step"))
STEP_START = "model.joint_loss"
STEP_END = ("training.SGD.step", "training.Adagrad.step")


class Tracer:
    """In-memory spans aggregated by (name, parent name, root name)."""

    def __init__(self):
        self.stack: list[tuple[str, list[float]]] = []
        # key -> [calls, total seconds, self seconds]
        self.stats: dict[tuple[str, str, str], list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.tensors = 0                 # Tensor constructions
        self.step_ms: list[float] = []   # one joint_loss + backward + step each
        self.step_nodes: list[int] = []
        self.cooc_scores = 0             # sum of n^2 over co-occurrence calls
        self.cooc_links = 0              # sum of 2E over co-occurrence calls
        self._step_open: tuple[float, int] | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._on_enter = {STEP_START: self._start_step,
                          "embedding.cooccurrence_loss": self._count_cooc}
        self._on_exit = {end: self._end_step for end in STEP_END}

    # -- spans -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        stack, stats = self.stack, self.stats
        on_enter = self._on_enter.get(name)
        on_exit = self._on_exit.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            children = [0.0]
            stack.append((name, children))
            t0 = perf_counter()
            try:
                if on_enter is not None:
                    on_enter(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                if on_exit is not None:
                    on_exit()
                dt = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1][0] += dt
                root = stack[0][0] if stack else name
                entry = stats[(name, parent[0] if parent else "", root)]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - children[0]

        return wrapper

    def _start_step(self, *args, **kwargs):
        self._step_open = (perf_counter(), self.tensors)

    def _end_step(self):
        if self._step_open is not None:
            t0, nodes = self._step_open
            self.step_ms.append((perf_counter() - t0) * 1e3)
            self.step_nodes.append(self.tensors - nodes)
            self._step_open = None

    def _count_cooc(self, h, adjacency):
        n = adjacency.shape[0]
        self.cooc_scores += n * n
        self.cooc_links += int(np.count_nonzero(adjacency))

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        package = importlib.import_module("slim")
        namespaces = [package] + [
            importlib.import_module(f"slim.{info.name}")
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for layer in LAYERS:
            if layer == "autodiff":
                continue
            module = importlib.import_module(f"slim.{layer}")
            for attr, fn in list(vars(module).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if getattr(ns, attr, None) is fn:
                        self._patch(ns, attr, wrapper)
        for layer, cls_name, method in METHODS:
            cls = getattr(importlib.import_module(f"slim.{layer}"), cls_name)
            self._patch(cls, method,
                        self._wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        tensor = importlib.import_module("slim.autodiff").Tensor
        original_init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            self.tensors += 1
            original_init(obj, *args, **kwargs)

        self._patch(tensor, "__init__", counting_init)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- queries -----------------------------------------------------------

    def total(self, name: str, *, root: str | None = None,
              skip_parent: str | None = None, field: int = 1) -> float:
        """Sum of one stats field over the spans of ``name`` that match."""
        return sum(
            entry[field] for (n, p, r), entry in self.stats.items()
            if n == name and (root is None or r == root)
            and (skip_parent is None or p != skip_parent)
        )

    def span_table(self, cycles: int) -> dict[str, dict]:
        """Calls, total and self milliseconds per span name, per cycle."""
        table: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _, _), entry in self.stats.items():
            for i in range(3):
                table[name][i] += entry[i]
        return {name: {"calls": c / cycles, "total_ms": t * 1e3 / cycles,
                       "self_ms": s * 1e3 / cycles}
                for name, (c, t, s) in sorted(table.items(), key=lambda kv: -kv[1][2])}

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer (the module a span's function lives in)."""
        out = {layer: 0.0 for layer in LAYERS}
        for (name, _, _), entry in self.stats.items():
            out[name.split(".", 1)[0]] += entry[2]
        return out
