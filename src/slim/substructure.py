"""Per-node substructure descriptors from k-hop shells.

Each node contributes one substructure instance: the multiset of node types
inside its k-hop ball, arranged by one of four layouts (rows of the matrix Z).
The exact-j-hop shells S_1..S_k of every source come from one frontier
recurrence, S_j = (S_{j-1} A > 0) minus everything reached before. The
boolean product S_{j-1} A is formed one of two ways, both exact:

  dense    the float32 product of the 0/1 matrices. It counts paths, and
           every count stays below 2**24, so ``> 0`` reads it exactly. It
           costs O(n^3) per hop and is kept for graphs of at most
           DENSE_SHELL_NODES nodes and for hops too dense to walk.
  walked   for every pair (p, k) of S_{j-1}, every edge (k, q) of the
           graph's CSR edge list sets (p, q). It only ORs, so it is exact
           at any size. It costs O(n^2 + walks) per hop, and is taken while
           the graph has at most n^2/8 directed edges and the hop at most
           n^2/8 walked edges, a count taken before any pair is listed
           (deg . column counts of S_{j-1}, O(n^2)). Each of the walk's
           int64 index arrays then holds no more bytes than one n x n
           boolean matrix, so its peak memory stays below that of the
           three n x n float32 arrays of the product it replaces.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .datasets import Graph

MAX_HOPS = 10
# at or below this many nodes every hop takes the dense product: on sparse
# tree-plus-chords graphs (1 BLAS thread) it is faster up to about 200
# nodes, and the edge walk is faster from about 240
DENSE_SHELL_NODES = 200


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


def _walked_frontier(shell: np.ndarray, deg: np.ndarray,
                     indices: np.ndarray) -> np.ndarray | None:
    """The boolean product S A of a shell S and the adjacency of the CSR
    (row lengths ``deg``, column array ``indices``), from walking every edge
    (k, q) of every pair (p, k) of S: S A has (p, q) iff some walk ends
    there. None, and the caller takes the dense product, when the walk has
    more than n^2/8 steps."""
    n = shell.shape[0]
    # a pair (p, k) walks the deg(k) edges of k, so the walk's length is
    # known before any pair is listed; each pair walks at least one edge (k
    # is reached from p, so k has one), so the bound also bounds the pairs
    walks = int(deg @ np.count_nonzero(shell, axis=0))
    if walks > n * n // 8:
        return None
    p, k = np.divmod(np.flatnonzero(shell), n)
    counts = deg[k]
    # CSR position of each step: the first edge of k plus the step's rank
    # among the steps of its pair
    pos = np.repeat((np.cumsum(deg) - deg)[k] - (np.cumsum(counts) - counts), counts)
    pos += np.arange(walks)
    keys = np.repeat(p * n, counts)
    keys += indices[pos]
    frontier = np.zeros(n * n, dtype=bool)
    frontier[keys] = True
    return frontier.reshape(n, n)


def hop_shells(edges: np.ndarray, n: int,
               hops: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Boolean shells S_1..S_hops of the n-node graph with the directed edge
    list ``edges`` (``Graph.edges``, in CSR order), S_j[p, q] iff the hop
    distance p -> q is j, and the boolean ball I + S_1 + ... + S_hops of
    distances at most ``hops`` that the recurrence builds along the way.

    S_1 is scattered from the edges. Each later frontier S_{j-1} A is walked
    along the edge list on graphs of more than DENSE_SHELL_NODES nodes while
    the graph and the walk stay within their bounds, and is the float32
    product otherwise (see the module docstring). Both give the same
    booleans, so the shells do not depend on the path taken.
    """
    src, dst = edges
    # in CSR order, dst is the column array of the CSR with row lengths deg
    walkable = n > DENSE_SHELL_NODES and src.size <= n * n // 8
    deg = np.bincount(src, minlength=n) if walkable else None
    a32 = None  # scattered at the first dense hop, then kept for the others
    reach = np.eye(n, dtype=bool)
    shells = []
    for j in range(hops):
        if j == 0:
            frontier = np.zeros((n, n), dtype=bool)
            frontier[src, dst] = True
        else:
            frontier = None if deg is None else _walked_frontier(shells[-1], deg, dst)
            if frontier is None:
                if a32 is None:
                    a32 = np.zeros((n, n), dtype=np.float32)
                    a32[src, dst] = 1.0
                # float32 is exact here: a product of 0/1 matrices counts
                # paths, and every count stays below 2**24 for graphs under
                # 2**24 nodes
                frontier = shells[-1].astype(np.float32) @ a32 > 0
        shell = frontier & ~reach
        reach |= shell
        shells.append(shell)
    return shells, reach


def build_substructures(graph: Graph, x: np.ndarray, cfg: SubstructureConfig) -> np.ndarray:
    """Assemble the n x D substructure matrix Z for one graph.

    node_distribution     A(k) X                      width c
    center_emphasis       [X ; A(k) X]                width 2c
    layer_wise            [S1 X ; ... ; Sk X]         width k*c
    weighted_layer_sum    X + sum_j decay^j Sj X      width c
    where Sj is the exact-j-hop shell and A(k) = I + S1 + ... + Sk, the
    ball of ``hop_shells``. Both are boolean; matmul casts them to x's
    dtype.
    """
    n = graph.node_count
    if x.shape[0] != n:
        raise ValueError("feature matrix and graph disagree on node count")
    shells, ball = hop_shells(graph.edges, n, cfg.hops)
    if cfg.variant is Variant.LAYER_WISE:
        return np.hstack([s @ x for s in shells])
    if cfg.variant is Variant.WEIGHTED_LAYER_SUM:
        z = x.copy()
        for j, s in enumerate(shells, 1):
            z += cfg.layer_decay**j * (s @ x)
        return z
    reach_x = ball @ x
    if cfg.variant is Variant.CENTER_EMPHASIS:
        return np.hstack([x, reach_x])
    return reach_x
