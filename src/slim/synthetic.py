"""Synthetic two-class molecule-like benchmarks.

Used by the demos and the test suite as a desk-scale stand-in when no TU
benchmark directory is available. Graphs are fused aromatic-style rings with
substituent motifs; the class signal mixes composition (how many of which
motif) and wiring (what the motifs attach to), with enough randomness that
the classes overlap. Sizes and label balance mimic a small chemistry
benchmark: ~17 nodes per graph, 7 node types, a roughly 2:1 class split.
Each molecule grows as a list of bonds (undirected atom pairs) and atom
labels; its CSR edge list comes from one sort of both directions' keys.
"""
from __future__ import annotations

import numpy as np

from .datasets import DatasetBundle, Graph

RING_TYPES = (0, 1)       # backbone atom types
MOTIF_CENTER = 2          # substituent branching atom
MOTIF_LEAF = 3            # substituent leaf atom
NOISE_TYPES = (4, 5, 6)   # chain/decoration atoms shared by both classes
CLASS0_SHARE = 0.66       # fraction of class-0 graphs in a bundle


def _fused_backbone(rng: np.random.Generator) -> tuple[list[tuple[int, int]], list[int]]:
    """The bonds and labels of an r1-ring fused with an r2-ring along the
    bond between atoms 0 and 1: the r2 - 2 new atoms chain from 0 to 1."""
    r1, r2 = int(rng.integers(5, 7)), int(rng.integers(5, 7))
    extra = r2 - 2
    chain = [0, *range(r1, r1 + extra), 1]
    bonds = [(i, (i + 1) % r1) for i in range(r1)] + list(zip(chain[:-1], chain[1:]))
    labels = [RING_TYPES[i % 2] for i in range(r1)]
    labels += [RING_TYPES[(i + 1) % 2] for i in range(extra)]
    return bonds, labels


def make_graph(rng: np.random.Generator, label: int) -> Graph:
    """One molecule; class 0 is 'activated', class 1 is 'plain'.

    Class 0 carries 1-3 branched motifs (a type-2 atom with two type-3
    leaves); class 1 carries 0-1 of them plus lone type-3/type-4 pendants, so
    motif counts overlap and part of the signal sits in the wiring.
    """
    bonds, labels = _fused_backbone(rng)
    ring_atoms = len(labels)

    def attach(host: int, kind: int) -> int:
        """Bond a new atom of type ``kind`` to ``host``; returns its index."""
        bonds.append((host, len(labels)))
        labels.append(kind)
        return len(labels) - 1

    def add_branched_motif():
        center = attach(int(rng.integers(ring_atoms)), MOTIF_CENTER)
        attach(center, MOTIF_LEAF)
        attach(center, MOTIF_LEAF)

    def add_pendant(kind: int):
        attach(int(rng.integers(ring_atoms)), kind)

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
        host = attach(host, int(rng.choice(NOISE_TYPES)))
    if rng.random() < 0.25:
        labels[int(rng.integers(len(labels)))] = int(rng.choice(NOISE_TYPES))
    n = len(labels)
    u, v = np.array(bonds, dtype=np.int64).T
    edges = np.stack(np.divmod(np.sort(np.concatenate([u * n + v, v * n + u])), n))
    return Graph(edges, np.array(labels), label)


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
