"""Per-node substructure descriptors from k-hop shells.

Each node contributes one substructure instance: the multiset of node types
inside its k-hop ball, arranged by one of four layouts (rows of the matrix Z).
The exact-j-hop shells S_1..S_k of every source come from one frontier
recurrence, S_j = (S_{j-1} A > 0) minus everything reached before, formed
one of two ways, both exact:

  dense    n x n booleans, the frontier S_{j-1} A the float32 product of the
           0/1 matrices. It counts paths, and every count stays below 2**24,
           so ``> 0`` reads it exactly. Z is the product of the ball or the
           shells with the one-hot labels X. It costs O(n^3) per hop.
  walked   each shell a sorted array of int64 pair keys p * n + q. S_1 is
           the edge list's keys; S_j lists, for every pair (p, k) of
           S_{j-1}, every edge (k, q) of the graph's CSR, then sorts and
           deduplicates the keys and drops those already reached (a
           ``searchsorted`` into the sorted keys of the reach, which each
           shell then joins). S_j X is one ``bincount`` of the label of q
           under p, the same integers as the product. It costs
           O(walks log walks) per hop and holds no n x n array.

A graph walks when it has more than DENSE_SHELL_NODES nodes, at most n^2/8
directed edges, and no hop walks more than n^2/8 steps, a count taken from
the degrees (deg[k] summed over the pairs of S_{j-1}) before any step is
listed. Otherwise the whole graph takes the dense recurrence. So each shell
holds at most n^2/8 keys, no more bytes than one n x n boolean matrix, and
the walk lists a hop's steps a chunk of sources at a time, so that its index
arrays stay a few MiB however long the hop.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .datasets import Graph, _sorted_unique

MAX_HOPS = 10
# at or below this many nodes every graph takes the dense product: on sparse
# tree-plus-chords graphs (1 BLAS thread, 3 hops) it is faster up to about
# 200 nodes, and the walk is faster from about 250
DENSE_SHELL_NODES = 200
# walk steps listed at once: the walk's index arrays stay a few MiB
WALK_CHUNK = 1 << 18


class Variant(str, Enum):
    NODE_DISTRIBUTION = "node_distribution"
    CENTER_EMPHASIS = "center_emphasis"
    LAYER_WISE = "layer_wise"
    WEIGHTED_LAYER_SUM = "weighted_layer_sum"


@dataclass(frozen=True)
class SubstructureConfig:
    hops: int = 3
    variant: Variant = Variant.NODE_DISTRIBUTION
    layer_decay: float = 0.5  # geometric layer weight, weighted_layer_sum only

    def __post_init__(self):
        if not 0 <= self.hops <= MAX_HOPS:
            raise ValueError(f"hops must be in [0, {MAX_HOPS}], got {self.hops}")
        if not 0.0 < self.layer_decay <= 1.0:
            raise ValueError("layer_decay must be in (0, 1]")
        object.__setattr__(self, "variant", Variant(self.variant))
        if self.variant is Variant.LAYER_WISE and self.hops < 1:
            raise ValueError(f"{self.variant.value} requires hops >= 1")


def hop_shells(edges: np.ndarray, n: int,
               hops: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Boolean shells S_1..S_hops of the n-node graph with the directed edge
    list ``edges`` (``Graph.edges``), S_j[p, q] iff the hop distance p -> q
    is j, and the boolean ball I + S_1 + ... + S_hops of distances at most
    ``hops`` that the recurrence builds along the way: the dense path of the
    module docstring."""
    src, dst = edges
    a32 = None  # scattered at the first hop past S_1, then kept
    reach = np.eye(n, dtype=bool)
    shells = []
    for j in range(hops):
        if j == 0:
            frontier = np.zeros((n, n), dtype=bool)
            frontier[src, dst] = True
        else:
            if a32 is None:
                a32 = np.zeros((n, n), dtype=np.float32)
                a32[src, dst] = 1.0
            # float32 is exact here: a product of 0/1 matrices counts paths,
            # and every count stays below 2**24 for graphs under 2**24 nodes
            frontier = shells[-1].astype(np.float32) @ a32 > 0
        shell = frontier & ~reach
        reach |= shell
        shells.append(shell)
    return shells, reach


def _walk(pairs: np.ndarray, n: int, deg: np.ndarray, first: np.ndarray,
          dst: np.ndarray, reach: np.ndarray) -> np.ndarray:
    """The sorted keys (p, q) of every edge (k, q) of every pair (p, k) of
    the sorted keys ``pairs``, less those in the sorted keys ``reach``; the
    CSR has row lengths ``deg``, row starts ``first`` and columns ``dst``."""
    p, k = np.divmod(pairs, n)
    steps = deg[k]
    # CSR position of each step: the first edge of k plus the step's rank
    # among the steps of its pair
    pos = np.repeat(first[k] - (np.cumsum(steps) - steps), steps)
    pos += np.arange(pos.size)
    keys = np.repeat(p * n, steps)
    keys += dst[pos]
    keys = _sorted_unique(keys)
    at = np.searchsorted(reach, keys)
    at[at == reach.size] = 0
    return keys[reach[at] != keys]


def _walked_hop(shell: np.ndarray, n: int, deg: np.ndarray, first: np.ndarray,
                dst: np.ndarray, reach: np.ndarray) -> np.ndarray | None:
    """The keys of the next shell after ``shell`` (sorted keys) given the
    sorted keys ``reach`` of every pair reached so far, walked a chunk of
    sources at a time; None when the hop walks more than n^2/8 steps."""
    # a pair (p, k) walks the deg(k) edges of k
    ends = np.cumsum(deg[shell % n])
    walks = int(ends[-1]) if ends.size else 0
    if walks > n * n // 8:
        return None
    # cut about every WALK_CHUNK steps, back at the first pair of the source
    # holding the cut: every chunk then holds whole sources, so its keys
    # are disjoint from and ordered after the chunk before (a source of more
    # than WALK_CHUNK steps leaves empty chunks, which walk nothing)
    at = np.searchsorted(ends, np.arange(WALK_CHUNK, walks, WALK_CHUNK), side="right")
    cuts = np.concatenate([[0], np.searchsorted(shell, shell[at] // n * n), [shell.size]])
    return np.concatenate([_walk(shell[lo:hi], n, deg, first, dst, reach)
                           for lo, hi in zip(cuts[:-1], cuts[1:])])


def walked_shells(edges: np.ndarray, n: int, hops: int) -> list[np.ndarray] | None:
    """The shells S_1..S_hops of the n-node graph with the directed edge
    list ``edges`` (``Graph.edges``, in the CSR order every Graph is checked
    for) as sorted int64 keys p * n + q: the walked path of the module
    docstring. None, and the caller takes ``hop_shells``, when the graph or
    one of its hops is not walked."""
    if n <= DENSE_SHELL_NODES or edges.shape[1] > n * n // 8:
        return None
    src, dst = edges
    keys = src * n + dst
    # in CSR order, dst is the column array of the CSR with row lengths deg
    deg = np.bincount(src, minlength=n)
    first = np.cumsum(deg) - deg
    reach = np.arange(n, dtype=np.int64) * (n + 1)
    shells = []
    for j in range(hops):
        if j == 0:
            shell = keys
        else:
            # the union of two sorted runs with no key in common
            reach = np.sort(np.concatenate([reach, shells[-1]]), kind="stable")
            shell = _walked_hop(shells[-1], n, deg, first, dst, reach)
            if shell is None:
                return None
        shells.append(shell)
    return shells


def build_substructures(graph: Graph, x: np.ndarray, cfg: SubstructureConfig) -> np.ndarray:
    """Assemble the n x D substructure matrix Z for one graph.

    node_distribution     A(k) X                      width c
    center_emphasis       [X ; A(k) X]                width 2c
    layer_wise            [S1 X ; ... ; Sk X]         width k*c
    weighted_layer_sum    X + sum_j decay^j Sj X      width c
    where X = ``one_hot_features(graph, c)``, Sj is the exact-j-hop shell and
    A(k) = I + S1 + ... + Sk the ball. On the dense path the products read
    the booleans of ``hop_shells``; on the walked path Sj X counts the labels
    of ``graph.node_labels`` over the keys of ``walked_shells``. Both sum
    0/1 terms exactly, so Z does not depend on the path.
    """
    n = graph.node_count
    if x.shape[0] != n:
        raise ValueError("feature matrix and graph disagree on node count")
    walked = walked_shells(graph.edges, n, cfg.hops)
    if walked is not None:
        # row p of S_j X counts the labels of the q of S_j's pairs (p, q)
        c = x.shape[1]
        layers = [np.bincount(s // n * c + graph.node_labels[s % n],
                              minlength=n * c).reshape(n, c).astype(x.dtype) for s in walked]
        ball_x = x + sum(layers)
    elif cfg.variant in (Variant.LAYER_WISE, Variant.WEIGHTED_LAYER_SUM):
        layers = [s @ x for s in hop_shells(graph.edges, n, cfg.hops)[0]]
    else:
        ball_x = hop_shells(graph.edges, n, cfg.hops)[1] @ x
    if cfg.variant is Variant.LAYER_WISE:
        return np.hstack(layers)
    if cfg.variant is Variant.WEIGHTED_LAYER_SUM:
        z = x.copy()
        for j, sx in enumerate(layers, 1):
            z += cfg.layer_decay**j * sx
        return z
    if cfg.variant is Variant.CENTER_EMPHASIS:
        return np.hstack([x, ball_x])
    return ball_x
