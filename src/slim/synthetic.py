"""Synthetic two-class molecule-like benchmarks.

Used by the demos and the test suite as a desk-scale stand-in when no TU
benchmark directory is available. Graphs are fused aromatic-style rings with
substituent motifs; the class signal mixes composition (how many of which
motif) and wiring (what the motifs attach to), with enough randomness that
the classes overlap. Sizes and label balance mimic a small chemistry
benchmark: ~17 nodes per graph, 7 node types, a roughly 2:1 class split.
"""
from __future__ import annotations

import numpy as np

from .datasets import DatasetBundle, Graph

RING_TYPES = (0, 1)       # backbone atom types
MOTIF_CENTER = 2          # substituent branching atom
MOTIF_LEAF = 3            # substituent leaf atom
NOISE_TYPES = (4, 5, 6)   # chain/decoration atoms shared by both classes
CLASS0_SHARE = 0.66       # fraction of class-0 graphs in a bundle


def _ring(n: int) -> np.ndarray:
    a = np.zeros((n, n))
    for i in range(n):
        a[i, (i + 1) % n] = a[(i + 1) % n, i] = 1.0
    return a


def _attach(a: np.ndarray, host: int, new_label: int, labels: list[int]) -> np.ndarray:
    n = a.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:n, :n] = a
    out[host, n] = out[n, host] = 1.0
    labels.append(new_label)
    return out


def _fused_backbone(rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    r1, r2 = int(rng.integers(5, 7)), int(rng.integers(5, 7))
    a = _ring(r1)
    labels = [RING_TYPES[i % 2] for i in range(r1)]
    extra = r2 - 2
    n0 = a.shape[0]
    fused = np.zeros((n0 + extra, n0 + extra))
    fused[:n0, :n0] = a
    chain = [0] + list(range(n0, n0 + extra)) + [1]
    for u, v in zip(chain[:-1], chain[1:]):
        fused[u, v] = fused[v, u] = 1.0
    labels += [RING_TYPES[(i + 1) % 2] for i in range(extra)]
    return fused, labels


def make_graph(rng: np.random.Generator, label: int) -> Graph:
    """One molecule; class 0 is 'activated', class 1 is 'plain'.

    Class 0 carries 1-3 branched motifs (a type-2 atom with two type-3
    leaves); class 1 carries 0-1 of them plus lone type-3/type-4 pendants, so
    motif counts overlap and part of the signal sits in the wiring.
    """
    a, labels = _fused_backbone(rng)
    ring_atoms = a.shape[0]

    def add_branched_motif():
        nonlocal a
        host = int(rng.integers(ring_atoms))
        a = _attach(a, host, MOTIF_CENTER, labels)
        center = a.shape[0] - 1
        a = _attach(a, center, MOTIF_LEAF, labels)
        a = _attach(a, center, MOTIF_LEAF, labels)

    def add_pendant(kind: int):
        nonlocal a
        a = _attach(a, int(rng.integers(ring_atoms)), kind, labels)

    if label == 0:
        for _ in range(int(rng.integers(1, 4))):
            add_branched_motif()
        if rng.random() < 0.3:
            add_pendant(MOTIF_LEAF)
    else:
        if rng.random() < 0.25:
            add_branched_motif()
        for _ in range(int(rng.integers(1, 3))):
            add_pendant(MOTIF_LEAF)
        if rng.random() < 0.6:
            add_pendant(NOISE_TYPES[0])
    # shared decoration: short chain of misc atoms, occasional relabel
    host = int(rng.integers(ring_atoms))
    for _ in range(int(rng.integers(1, 4))):
        a = _attach(a, host, int(rng.choice(NOISE_TYPES)), labels)
        host = a.shape[0] - 1
    if rng.random() < 0.25:
        labels[int(rng.integers(len(labels)))] = int(rng.choice(NOISE_TYPES))
    return Graph.from_adjacency(a, np.array(labels), label)


def make_bundle(n_graphs: int = 188, seed: int = 0, name: str = "synthetic") -> DatasetBundle:
    """A two-class bundle sized like a small chemistry benchmark."""
    rng = np.random.default_rng(seed)
    n_class0 = int(round(n_graphs * CLASS0_SHARE))
    graphs = [make_graph(rng, 0) for _ in range(n_class0)]
    graphs += [make_graph(rng, 1) for _ in range(n_graphs - n_class0)]
    order = rng.permutation(len(graphs))
    graphs = [graphs[i] for i in order]
    c = max(int(v) for g in graphs for v in g.node_labels) + 1
    return DatasetBundle(name=name, graphs=graphs, node_label_count=c, class_count=2)
