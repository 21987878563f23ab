"""Workload definitions and the benchmark's own input generators.

The generators live here, not in ``slim.synthetic``, so that a change to the
program cannot change what the benchmark feeds it. Every generator is a pure
function of its seed and writes plain TU files, which the program then parses
like any downloaded benchmark.

Graph sizes are fixed per workload and only their order, wiring and labels
depend on the seed, so the amount of work is nearly the same for every seed.
"""
from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

NODE_TYPES = 7


@dataclass(frozen=True)
class Workload:
    name: str
    generator: str          # "molecules" or "large"
    graphs: int
    batch_size: int         # the rest of training.TrainConfig stays at defaults
    epochs: int             # fixed epoch budget of one training run
    setup_reps: int         # least load + prepare repetitions per run
    # accuracy over all graphs must reach class prior + margin; each margin is
    # at most half of the smallest lead over the prior seen on seeds 1-20
    accuracy_margin: float


WORKLOADS = {
    w.name: w
    for w in (
        # per-graph Python and tape overhead: joint_loss, backward, Adagrad step
        Workload(
            name="standin-k100",
            generator="molecules", graphs=188, batch_size=32, epochs=10, setup_reps=25,
            accuracy_margin=0.05,
        ),
        # BFS set-up, the n x n co-occurrence loss and k-means init
        Workload(
            name="large-graph",
            generator="large", graphs=24, batch_size=8, epochs=8, setup_reps=3,
            accuracy_margin=0.1,
        ),
    )
}


@dataclass(frozen=True)
class GraphSpec:
    """One generated graph: node types, undirected local edges (u < v), class."""

    types: list[int]
    edges: list[tuple[int, int]]
    label: int


# ---------------------------------------------------------------------------
# molecule-like graphs: two fused rings plus substituents, about 16 nodes


def _molecule(rng: np.random.Generator, label: int) -> GraphSpec:
    types: list[int] = []
    edges: list[tuple[int, int]] = []

    def add(kind: int, host: int | None) -> int:
        types.append(kind)
        node = len(types) - 1
        if host is not None:
            edges.append((host, node))
        return node

    # first ring of 5-6 atoms alternating types 0/1
    ring = int(rng.integers(5, 7))
    for i in range(ring):
        add(i % 2, i - 1 if i else None)
    edges.append((0, ring - 1))
    # second ring fused on the bond (0, 1)
    prev = 0
    for i in range(int(rng.integers(3, 5))):
        prev = add((i + 1) % 2, prev)
    edges.append((1, prev))
    backbone = len(types)

    def host() -> int:
        return int(rng.integers(backbone))

    if label == 0:
        # branched motifs: a type-2 centre carrying two type-3 leaves
        for _ in range(int(rng.integers(1, 4))):
            centre = add(2, host())
            add(3, centre)
            add(3, centre)
    else:
        if rng.random() < 0.25:
            centre = add(2, host())
            add(3, centre)
            add(3, centre)
        for _ in range(int(rng.integers(1, 3))):
            add(3, host())
        if rng.random() < 0.6:
            add(4, host())
    # decoration shared by both classes: a short chain of types 4-6
    tail = host()
    for _ in range(int(rng.integers(1, 4))):
        tail = add(int(rng.integers(4, NODE_TYPES)), tail)
    if rng.random() < 0.25:
        types[int(rng.integers(len(types)))] = int(rng.integers(4, NODE_TYPES))
    return GraphSpec(types, [(min(u, v), max(u, v)) for u, v in edges], label)


def molecules(count: int, seed: int) -> list[GraphSpec]:
    """``count`` molecule-like graphs, classes split 2:1, in seeded order."""
    rng = np.random.default_rng([seed, 1])
    first = round(count * 2 / 3)
    labels = rng.permutation([0] * first + [1] * (count - first))
    return [_molecule(rng, int(y)) for y in labels]


# ---------------------------------------------------------------------------
# large sparse graphs: random recursive tree plus chords, mean degree 2.5

# per-class node-type mix; the class signal lives only here, never in the
# sizes or the degree sequence. Sizes span 800-1200 nodes because the pooled
# C_norm feature scales as 1/n: over 500-1500 nodes that scale swamps the
# type signal and the model stays near the class prior within the epoch budget.
LARGE_TYPE_MIX = (
    (0.3, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.1, 0.3, 0.3, 0.3),
)
LARGE_SIZES = (800, 1200)


def _large(rng: np.random.Generator, n: int, label: int) -> GraphSpec:
    parents = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    pairs = {(int(p), i) for i, p in enumerate(parents, start=1)}
    target = n - 1 + n // 4
    while len(pairs) < target:
        u, v = (int(x) for x in rng.integers(n, size=2))
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    types = rng.choice(NODE_TYPES, size=n, p=LARGE_TYPE_MIX[label])
    return GraphSpec([int(t) for t in types], sorted(pairs), label)


def large_graphs(count: int, seed: int) -> list[GraphSpec]:
    """``count`` sparse graphs; sizes fixed up to order, half of each class."""
    rng = np.random.default_rng([seed, 2])
    sizes = rng.permutation(np.linspace(*LARGE_SIZES, count).round().astype(np.int64))
    labels = rng.permutation([i % 2 for i in range(count)])
    return [_large(rng, int(n), int(y)) for n, y in zip(sizes, labels)]


def generate(workload: Workload, seed: int) -> list[GraphSpec]:
    if workload.generator == "molecules":
        return molecules(workload.graphs, seed)
    return large_graphs(workload.graphs, seed)


# ---------------------------------------------------------------------------
# TU files


def write_tu(specs: list[GraphSpec], root: str, name: str) -> dict:
    """Write ``specs`` as TU dataset ``root/name`` and describe what was written.

    Returns node and edge counts, the class prior and a sha256 over the files,
    so two runs can show that their inputs are identical.
    """
    base = os.path.join(root, name)
    os.makedirs(base, exist_ok=True)
    a_lines, indicator, node_labels = [], [], []
    offset = 0
    for gi, spec in enumerate(specs, start=1):
        for u, v in spec.edges:
            a_lines.append(f"{offset + u + 1}, {offset + v + 1}\n")
            a_lines.append(f"{offset + v + 1}, {offset + u + 1}\n")
        indicator.extend(f"{gi}\n" for _ in spec.types)
        node_labels.extend(f"{t}\n" for t in spec.types)
        offset += len(spec.types)
    contents = {
        "A": "".join(a_lines),
        "graph_indicator": "".join(indicator),
        "graph_labels": "".join(f"{s.label}\n" for s in specs),
        "node_labels": "".join(node_labels),
    }
    digest = hashlib.sha256()
    for suffix, text in contents.items():
        data = text.encode("utf-8")
        with open(os.path.join(base, f"{name}_{suffix}.txt"), "wb") as fh:
            fh.write(data)
        digest.update(suffix.encode("utf-8") + b"\0" + data)
    labels = np.array([s.label for s in specs])
    return {
        "graphs": len(specs),
        "nodes": offset,
        "edges": sum(len(s.edges) for s in specs),
        "class_prior": float(np.bincount(labels).max() / len(labels)),
        "tu_sha256": digest.hexdigest(),
    }
